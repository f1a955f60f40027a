"""Tests of the benchmark itself: schema, span arithmetic, probe hygiene, inputs.

Run with ``python -m pytest perfbench/tests``.
"""

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wsmsnet
from wsmsnet import autodiff, cost, data, layers, model, ops, specs, trainer

from perfbench import workloads
from perfbench.tracing import (Span, StepClock, Tracer, layer_metrics, self_time_by_name,
                               self_times)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared(section):
    return {d["name"]: d["unit"] for d in BENCHMARK[section]}


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"][:2] == ["python3", "perfbench/run.py"]
    assert all(not p.startswith("/") and ".." not in p for p in BENCHMARK["paths"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    all_names = names + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _run(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema_and_metric_names(trace, section):
    proc = _run("--workload", "synth-wsms-train", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)
    assert all(set(v) == {"value", "unit"} and isinstance(v["value"], float)
               for v in result["metrics"].values())
    record = json.loads(lines[-2])["protocol"]
    for key in ("preset", "batch_size", "seed", "blas_threads", "numpy", "openblas",
                "python", "nproc", "warmup", "samples", "process"):
        assert key in record
    assert record["seed"] == 3 and record["blas_threads"] == "1"
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.9 <= metrics["trace.step_coverage"] <= 1.1
        assert metrics["model.stage3.fwd_s"] == 0.0  # the synth model has two stages


def test_missing_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth-wsms-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _span(name, start, end, parent=-1, unit=("step", 0), stage=0, layer=None, extra=None):
    return Span(name, start, end, parent, unit, stage, layer, extra)


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a: covered time counts once
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # runs past its parent: clipped
        _span("a", 7.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1 - 1, 2.0, 3.0, 1.0, 3.0, 1.0])
    assert self_time_by_name(spans) == pytest.approx(
        {"root": 3.0, "a": 3.0, "b": 3.0, "a.child": 1.0, "late": 3.0})


def test_layer_metrics_of_a_hand_built_step():
    rows = [cost.LayerRow("stem", "conv", 1, 0, 100, (1, 1, 1))]
    spans = [
        _span("model.forward", 0.0, 4.0, extra={"heap": 1 << 20}),
        _span("model.image_pyramid", 0.0, 0.5, parent=0),
        _span("model.stage", 0.5, 3.0, parent=0, stage=1),
        _span("layers.conv", 0.5, 1.5, parent=2, stage=1, layer="stem",
              extra={"kernel": 3, "batch": 10}),
        _span("ops.conv2d", 0.6, 1.5, parent=3, stage=1, layer="stem"),
        _span("ops.softmax_cross_entropy", 4.0, 4.5),
        _span("autodiff.backward", 5.0, 8.0, extra={"heap": 5 << 20, "nodes": 2}),
        _span("bwd.conv2d", 5.5, 7.5, parent=6, stage=1, layer="stem", extra={"batch": 10}),
        _span("trainer.sgd_momentum_step", 8.0, 9.0),
        _span("model.forward", 20.0, 21.0, unit=("eval", 1)),  # not a selected unit
    ]
    metrics, conv_rows = layer_metrics(spans, [("step", 0)], [10.0], rows)
    assert metrics["model.head.fwd_s"] == pytest.approx(4.0 - 0.5 - 2.5 + 0.5)
    assert metrics["model.stage1.bwd_s"] == pytest.approx(2.0)
    assert metrics["autodiff.backward_self_s"] == pytest.approx(1.0)
    assert metrics["autodiff.tape_mb"] == pytest.approx(4.0)
    assert metrics["autodiff.tape_nodes"] == 2
    assert metrics["trace.step_coverage"] == pytest.approx((4.0 + 0.5 + 3.0 + 1.0) / 10.0)
    assert metrics["trainer.step_other_s"] == pytest.approx(1.5)
    assert metrics["ops.conv2d.calls"] == 1
    # 100 mults x 10 examples forward, twice that backward, over 1 s + 2 s
    assert metrics["layers.conv3x3.gmult_per_s"] == pytest.approx(3000 / 3.0 / 1e9)
    assert metrics["model.stage2.time_overhead"] == 0.0
    assert conv_rows == [{"layer_path": "stem", "stage": 1, "kernel": 3, "fwd_s": 1.0,
                          "bwd_s": 2.0, "mults_per_example": 100,
                          "gmult_per_s": pytest.approx(1e-6)}]


def _wsmsnet_objects():
    """Every function and class attribute the probes could replace, by identity."""
    seen = {}
    for module in (wsmsnet, autodiff, cost, data, layers, model, ops, specs, trainer):
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("wsmsnet"):
                for attr, member in vars(value).items():
                    seen[(module.__name__, f"{name}.{attr}")] = member
    return seen


def _changed(before):
    after = _wsmsnet_objects()
    return sorted(k for k in before.keys() | after.keys() if before.get(k) is not after.get(k))


def test_step_clock_replaces_only_the_optimiser_step():
    before = _wsmsnet_objects()
    with StepClock():
        assert _changed(before) == [("wsmsnet.trainer", "sgd_momentum_step")]
    assert _changed(before) == []


def test_runs_leave_every_wsmsnet_function_original():
    before = _wsmsnet_objects()
    result, _, doc = workloads.run("synth-wsms-train", 4, 1, trace=False)
    assert result["correct"] and doc is None
    assert _changed(before) == []
    with Tracer():
        assert len(_changed(before)) > 20
    assert _changed(before) == []


def test_same_seed_gives_byte_identical_inputs():
    assert workloads.cifar_records(7, 64) == workloads.cifar_records(7, 64)
    assert workloads.cifar_records(7, 64) != workloads.cifar_records(8, 64)
    first, second, other = (workloads.synth_inputs(seed) for seed in (7, 7, 8))
    for a, b in zip(first, second):
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
    assert first[0].images.tobytes() != other[0].images.tobytes()


def test_step_tail_needs_ten_samples_beyond_it():
    assert workloads.step_tail([1.0] * 9) is None
    tail = workloads.step_tail([float(i) for i in range(100)])
    assert tail["percentile"] == 90 and tail["beyond"] == 10 and tail["samples"] == 100
