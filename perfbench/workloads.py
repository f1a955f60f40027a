"""The benchmark's workloads: seeded inputs, set-up, a checked warm-up, a timed loop.

Every workload runs in its own process (one per run of ``run.py``), so the
process's ``ru_maxrss`` is that workload's own peak. Inputs and model
initialisation come from the workload seed; the warm-up runs a fixed check on
inputs from ``CHECK_SEED`` whatever the workload seed is, so its result can be
compared against a value recorded in this file.

Workloads (see BENCHMARK.json for why each was chosen):

* ``synth-wsms-train``: preset ``synth-wsms-tiny`` on the rendered glyph data,
  ``trainer.train`` over whole epochs with held-out evaluation and checkpoints.
* ``resnet110-wsms-train``: preset ``wsms-resnet110-1x1`` at batch 32 with
  augmentation, on seeded random records read back through ``load_cifar``.
* ``resnet110-wsms-eval``: the same model and records, forward only, through
  ``trainer.evaluate`` at its default batch of 256.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from wsmsnet import cost, data, model as wmodel, specs, trainer
from wsmsnet.autodiff import Tensor

from perfbench.tracing import StepClock, Tracer, layer_metrics, self_time_by_name

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 5            # set-up is repeated and its median reported
CHECK_SEED = 0            # inputs and initialisation of the warm-up check
CHECK_STEPS = 2           # optimiser steps in the warm-up check, one batch each
RESNET_BATCH = 32
TRAIN_RECORDS = 512       # records in the resnet110 training split
EVAL_BATCH = 256          # evaluate()'s default; the eval split is one such batch
EVAL_WARMUP = 32          # examples in the eval warm-up pass
# Relative float32 tolerance on the check values, fixed before any run: it
# absorbs BLAS kernel rounding, not a changed gradient or update. OpenBLAS's
# Haswell and Sandybridge kernels move the values by under 4e-6 relative;
# dropping batch norm's xhat term from its backward moves the losses by over
# 5e-4.
CHECK_RTOL = 1e-4
# What the warm-up check must reproduce, recorded at the seed commit with one
# BLAS thread and OpenBLAS's SkylakeX kernels: for train workloads the loss of
# the last check step, taken after the steps before it updated the weights;
# for the eval workload the L2 norm of the check pass's logits.
CHECK_VALUE = {
    "synth-wsms-train": 1.6835300922393799,
    "resnet110-wsms-train": 2.555826187133789,
    "resnet110-wsms-eval": 114048188416.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    batch_size: int
    mode: str     # "train" or "eval"
    inputs: str   # "synth" or "cifar"


WORKLOADS = {w.name: w for w in (
    Workload("synth-wsms-train", "synth-wsms-tiny", 128, "train", "synth"),
    Workload("resnet110-wsms-train", "wsms-resnet110-1x1", RESNET_BATCH, "train", "cifar"),
    Workload("resnet110-wsms-eval", "wsms-resnet110-1x1", EVAL_BATCH, "eval", "cifar"),
)}


# -- inputs -------------------------------------------------------------------

def load_preset(name: str) -> Tuple[specs.WsmsSpec, trainer.TrainConfig]:
    cfg = json.loads((ROOT / "presets" / f"{name}.json").read_text())
    return specs.model_from_config(cfg["model"]), trainer.TrainConfig.from_dict(cfg["train"])


def synth_inputs(seed: int, per_class: Optional[int] = None):
    """Rendered (train, held-out) splits; ``per_class`` shrinks the train split."""
    cfg = data.SynthScaleConfig(seed=seed)
    if per_class is not None:
        cfg = dataclasses.replace(cfg, train_per_class=per_class, test_per_class=1)
    train, _seen, held = data.synth_scale_dataset(cfg)
    return train, held


def cifar_records(seed: int, count: int) -> bytes:
    """``count`` random 10-class records in the binary CIFAR layout."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(count, 3, data.IMAGE_SIZE, data.IMAGE_SIZE),
                          dtype=np.uint8)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    return data.encode_cifar(images, labels, "cifar10")


def head(ds: data.Dataset, count: int) -> data.Dataset:
    return data.Dataset(ds.images[:count], ds.labels[:count], ds.ids[:count], ds.class_count)


# -- measurement --------------------------------------------------------------

@dataclass
class Measurement:
    examples: int = 0                 # examples processed in the timed phase
    seconds: float = 0.0              # wall time of the timed phase
    unit_s: List[float] = field(default_factory=list)   # steps or eval batches in the median
    units: List[Tuple[str, int]] = field(default_factory=list)   # their tracer ids
    setup: Dict[str, List[float]] = field(default_factory=dict)  # component -> seconds per rep
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, object] = field(default_factory=dict)
    shape: Dict[str, int] = field(default_factory=dict)

    def time_setup(self, component: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.setup.setdefault(component, []).append(time.perf_counter() - start)
        return result


def _load_records(tmp: Path):
    return data.load_cifar(tmp / "train.bin"), data.load_cifar(tmp / "test.bin")


def _setup(w: Workload, spec, seed: int, tmp: Path, m: Measurement):
    """Repeat the program's set-up SETUP_REPS times; returns the last (train, eval, model)."""
    if w.inputs == "cifar":
        (tmp / "train.bin").write_bytes(cifar_records(seed, TRAIN_RECORDS))
        (tmp / "test.bin").write_bytes(cifar_records(seed + 1, EVAL_BATCH))
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        if w.inputs == "synth":
            train_raw, eval_raw = m.time_setup("data.synth_render", synth_inputs, seed)
        else:
            train_raw, eval_raw = m.time_setup("data.cifar_load", _load_records, tmp)
        train_ds, (eval_ds,), _, _ = m.time_setup(
            "data.normalize", data.normalize_per_channel, train_raw, eval_raw)
        net = m.time_setup("model.build", wmodel.build_model, spec, seed)
        m.setup.setdefault("setup", []).append(time.perf_counter() - start)
    return train_ds, eval_ds, net


def _check_inputs(w: Workload, tmp: Path) -> data.Dataset:
    count = w.batch_size if w.mode == "train" else EVAL_WARMUP
    if w.inputs == "synth":
        raw, _ = synth_inputs(CHECK_SEED, per_class=math.ceil(count / 5))
    else:
        (tmp / "check.bin").write_bytes(cifar_records(CHECK_SEED, count))
        raw = data.load_cifar(tmp / "check.bin")
    normed, _, _, _ = data.normalize_per_channel(head(raw, count))
    return normed


def _train_check(w: Workload, spec, cfg, tmp: Path, m: Measurement) -> float:
    """Warm-up: CHECK_STEPS steps from a fixed start; returns a step-time estimate.

    The check set is one batch and each epoch one step, so the trainer's
    per-epoch loss is each step's loss.
    """
    ds = _check_inputs(w, tmp)
    net = wmodel.build_model(spec, CHECK_SEED)
    with StepClock() as clock:
        start = time.perf_counter()
        try:
            records = trainer.train(net, ds, dataclasses.replace(
                cfg, epochs=CHECK_STEPS, seed=CHECK_SEED, batch_size=w.batch_size))
            losses = [r.train_loss for r in records[1:]]
            loss = losses[-1]
            m.checks["check_step_losses"] = losses
        except trainer.DivergenceError as err:
            loss = float("nan")
            m.checks["check_error"] = str(err)
    _record_check(w, loss, m)
    ends = [start] + clock.step_ends
    return ends[-1] - ends[-2] if len(ends) > 1 else time.perf_counter() - start


def _train_timed(w: Workload, net, cfg, train_ds, eval_ds, seed: int, seconds: float,
                 step_est: float, tmp: Path, probe: StepClock, m: Measurement) -> None:
    if w.inputs == "synth":
        steps_per_epoch = math.ceil(len(train_ds) / w.batch_size)
        epochs = max(1, round(seconds / (steps_per_epoch * step_est)))
        run_dir, held = tmp / "run", eval_ds
    else:
        steps = max(2, round(seconds / step_est))
        epochs = math.ceil(steps / (TRAIN_RECORDS // w.batch_size))
        steps_per_epoch = math.ceil(steps / epochs)
        train_ds = head(train_ds, steps_per_epoch * w.batch_size)
        run_dir = held = None
    cfg = dataclasses.replace(cfg, epochs=epochs, seed=seed, batch_size=w.batch_size)
    with probe:
        start = time.perf_counter()
        try:
            trainer.train(net, train_ds, cfg, eval_ds=held, run_dir=run_dir)
            m.examples = epochs * len(train_ds)
        except trainer.DivergenceError as err:
            m.failed += 1
            m.attempted += 1
            m.checks["divergence"] = str(err)
        m.seconds = time.perf_counter() - start
    ends = [start] + probe.step_ends
    if not m.examples:
        m.examples = len(probe.step_ends) * w.batch_size
    m.attempted += len(probe.step_ends)
    # The first step of an epoch also carries the epoch's shuffle, evaluation
    # and checkpoints, so only the other steps enter the step-time median.
    for k in range(len(probe.step_ends)):
        if k % steps_per_epoch:
            m.units.append(("step", k))
            m.unit_s.append(ends[k + 1] - ends[k])
    m.shape.update(epochs=epochs, steps_per_epoch=steps_per_epoch,
                   train_examples=len(train_ds))


def _record_check(w: Workload, value: float, m: Measurement) -> None:
    expected = CHECK_VALUE[w.name]
    ok = math.isfinite(value) and abs(value - expected) <= CHECK_RTOL * abs(expected)
    m.checks.update(check_value=value, check_expected=expected, check_rtol=CHECK_RTOL)
    m.attempted += 1
    m.failed += 0 if ok else 1


def _eval_check(w: Workload, spec, tmp: Path, m: Measurement) -> float:
    """Warm-up: an eval-mode forward pass from a fixed start; returns its seconds."""
    ds = _check_inputs(w, tmp)
    net = wmodel.build_model(spec, CHECK_SEED)
    start = time.perf_counter()
    logits = net.forward(Tensor(ds.images), training=False).data
    spent = time.perf_counter() - start
    m.checks["check_logit_abs_max"] = float(np.abs(logits).max())
    _record_check(w, float(np.linalg.norm(logits)), m)
    return spent


def _eval_timed(net, eval_ds, seconds: float, batch_est: float, probe: StepClock,
                m: Measurement) -> None:
    """Each evaluate() call is one batch; every pass must predict what the first did."""
    batches = max(2, round(seconds / batch_est))
    mismatched = 0
    reference = None
    with probe:
        for k in range(1, batches + 1):
            start = time.perf_counter()
            _error, rows = trainer.evaluate(net, eval_ds)
            m.unit_s.append(time.perf_counter() - start)
            m.units.append(("eval", k))
            preds = [r[2] for r in rows]
            if reference is None:
                reference = preds
            elif preds != reference:
                mismatched += 1
    m.seconds = sum(m.unit_s)
    m.examples = batches * len(eval_ds)
    m.attempted += batches
    m.failed += mismatched
    m.checks["eval_batches_mismatched"] = mismatched
    m.shape.update(eval_batches=batches, eval_examples=len(eval_ds))


def step_tail(samples: List[float]) -> Optional[dict]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        value = float(np.percentile(ordered, pct))
        beyond = sum(1 for s in ordered if s > value)
        if beyond >= 10:
            return {"percentile": pct, "value_s": value, "samples": len(ordered),
                    "beyond": beyond}
    return None


def _openblas_version() -> str:
    try:
        info = np.show_config(mode="dicts")
        return str(info["Build Dependencies"]["blas"].get("version"))
    except (TypeError, KeyError):
        return "unknown"


def protocol(w: Workload, seed: int, seconds: int, trace: bool, m: Measurement,
             blas_threads: str) -> dict:
    return {
        "workload": w.name, "preset": w.preset, "batch_size": w.batch_size,
        "seed": seed, "run_seconds": seconds, "trace": int(trace),
        "blas_threads": blas_threads, "numpy": np.__version__,
        "openblas": _openblas_version(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "process": "one fresh process per workload run and per traced run; "
                   "peak_rss_mb is this process's ru_maxrss",
        "setup": f"{SETUP_REPS} repetitions, median reported",
        "warmup": (f"{CHECK_STEPS} optimiser steps on seed-{CHECK_SEED} check inputs"
                   if w.mode == "train"
                   else f"one forward pass over {EVAL_WARMUP} seed-{CHECK_SEED} check inputs"),
        "median_over": ("optimiser steps that do not start an epoch" if w.mode == "train"
                        else "evaluate() calls of one batch each"),
        "samples": len(m.unit_s), "samples_s": m.unit_s, "step_tail": step_tail(m.unit_s),
        "failed_share": f"{m.failed}/{m.attempted}",
        "shape": m.shape, "checks": m.checks,
    }


def run(name: str, seed: int, seconds: int, trace: bool,
        blas_threads: str = "1") -> Tuple[dict, dict, Optional[dict]]:
    """Run one workload. Returns (result, protocol record, trace document or None).

    The result's ``metrics`` maps metric name to value; units come from
    BENCHMARK.json.
    """
    w = WORKLOADS[name]
    spec, cfg = load_preset(w.preset)
    tmp = OUT_DIR / f"tmp-{name}-{seed}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    m = Measurement()
    probe = Tracer() if trace else StepClock()
    try:
        train_ds, eval_ds, net = _setup(w, spec, seed, tmp, m)
        gc.collect()
        if w.mode == "train":
            step_est = _train_check(w, spec, cfg, tmp, m)
            gc.collect()
            _train_timed(w, net, cfg, train_ds, eval_ds, seed, seconds, step_est, tmp, probe, m)
        else:
            warm_s = _eval_check(w, spec, tmp, m)
            _eval_timed(net, eval_ds, seconds, warm_s * len(eval_ds) / EVAL_WARMUP, probe, m)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    examples_per_s = m.examples / m.seconds
    step_p50 = statistics.median(m.unit_s) if m.unit_s else m.seconds
    record = protocol(w, seed, seconds, trace, m, blas_threads)
    if not trace:
        metrics = {
            "examples_per_s": examples_per_s,
            "step_s_p50": step_p50,
            "setup_s": statistics.median(m.setup["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        doc = None
    else:
        report = cost.cost_report(spec, (data.IMAGE_SIZE, data.IMAGE_SIZE))
        layer, conv_rows = layer_metrics(probe.spans, m.units, m.unit_s, report.rows)
        overhead = cost.stage_overhead(spec)
        layer.update({
            "model.build_s": statistics.median(m.setup["model.build"]),
            "data.synth_render_s": statistics.median(m.setup.get("data.synth_render", [0.0])),
            "data.cifar_load_s": statistics.median(m.setup.get("data.cifar_load", [0.0])),
            "data.normalize_s": statistics.median(m.setup["data.normalize"]),
            "cost.stage2.mult_overhead": overhead.get(2, 0.0),
            "cost.stage3.mult_overhead": overhead.get(3, 0.0),
            "cost.mults_per_example": float(report.total_mults),
            "trace.examples_per_s": examples_per_s,
            "trace.step_s_p50": step_p50,
        })
        metrics = layer
        doc = {"protocol": record, "conv_rows": conv_rows,
               "self_s_by_span": self_time_by_name(probe.spans),
               "span_fields": ["name", "start", "end", "parent", "unit", "stage", "layer",
                               "extra"],
               "spans": [span.as_list() for span in probe.spans]}
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: float(v) for k, v in metrics.items()}}
    return result, record, doc
